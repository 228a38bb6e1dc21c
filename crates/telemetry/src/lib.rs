//! # sies-telemetry — zero-dependency observability for the SIES stack
//!
//! The paper's whole evaluation is an accounting exercise: where do
//! cycles, bytes, and joules go per epoch? This crate makes that
//! accounting a first-class, always-available substrate instead of
//! hand-threaded structs:
//!
//! - **Metrics** ([`metric`]): lock-free [`Counter`]s, [`FloatCounter`]s
//!   (energy joules), [`Gauge`]s, and fixed-width log2-bucketed
//!   [`Histogram`]s that merge and diff exactly.
//! - **Spans** ([`span`]): RAII wall-clock sections recording into
//!   histograms.
//! - **Journal** ([`journal`]): a bounded ring of typed per-epoch
//!   events (NACK sent, retransmit, failure report, lane dispatch, ...).
//! - **Registry** ([`registry`]): named metrics with cheap
//!   [`Snapshot`]/[`Snapshot::diff`] and a JSON exporter.
//! - **Timeline** ([`timeline`]): Chrome `trace_event` capture of span
//!   completions, each with its exact interval and thread, for
//!   `chrome://tracing` / Perfetto.
//! - **Process gauges** ([`process`]): peak RSS and the engine's
//!   bytes-per-node footprint.
//!
//! ## Kill-switch
//!
//! Telemetry defaults **on** and is disabled with `SIES_TELEMETRY=off`
//! (or `0`/`false`), mirroring the `SIES_LANES` knob in
//! `sies-crypto::lanes`. Tests and the overhead bench flip it
//! in-process with [`set_enabled`]/[`clear_enabled`]. When disabled,
//! every record macro compiles down to one relaxed atomic load plus a
//! branch — measured as <3% on the 2000-epoch chaos workload (see
//! `BENCH_observability.json`).
//!
//! ## Determinism
//!
//! Nothing in this crate feeds back into computation: metrics are
//! write-only from the instrumented code's perspective, and the journal
//! is drain-only. The determinism oracle in `sies-bench` pins this:
//! epoch digests are byte-identical with telemetry on/off and across
//! thread counts.
//!
//! ## Usage
//!
//! ```
//! use sies_telemetry as tel;
//!
//! tel::count!("net.nack.sent", 1);
//! tel::observe!("crypto.hmac.batch", 64);
//! {
//!     let _s = tel::span!("engine.aggregate");
//!     // ... timed section ...
//! }
//! tel::event(7, tel::EventKind::Retransmit, 42, 1);
//! let snap = tel::global().snapshot();
//! let _json = snap.to_json();
//! ```

pub mod journal;
pub mod metric;
pub mod process;
pub mod registry;
pub mod span;
pub mod timeline;

pub use journal::{Event, EventKind, Journal, EVENTS_DROPPED};
pub use metric::{Counter, FloatCounter, Gauge, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use process::{peak_rss_bytes, record_bytes_per_node, record_peak_rss};
pub use registry::{global, Registry, Snapshot};
pub use span::{thread_tid, Span};
pub use timeline::{
    is_recording, start_recording, stop_recording, to_trace_json, TimelineCapture, TraceEvent,
    DEFAULT_TIMELINE_CAPACITY,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// In-process override: 0 = follow the environment, 1 = forced on,
/// 2 = forced off. Same shape as `FORCED` in `sies-crypto::lanes`.
static FORCED: AtomicU8 = AtomicU8::new(0);

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("SIES_TELEMETRY") {
            Ok(v) => {
                let v = v.trim().to_ascii_lowercase();
                !(v == "off" || v == "0" || v == "false")
            }
            // Default on: the whole point is visibility without opt-in.
            Err(_) => true,
        }
    })
}

/// Whether record sites are live. One relaxed load + branch; this is
/// the entire cost of a disabled record site.
#[inline]
pub fn enabled() -> bool {
    match FORCED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_enabled(),
    }
}

/// Forces telemetry on or off in-process, overriding `SIES_TELEMETRY`.
/// Used by the overhead bench and by tests.
pub fn set_enabled(on: bool) {
    FORCED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Reverts to the environment's setting.
pub fn clear_enabled() {
    FORCED.store(0, Ordering::Relaxed);
}

/// The one lock for code that flips the process-global kill switch or
/// drains and audits the global event [`journal`] — tests and capture
/// harnesses. Holding it keeps another holder from switching telemetry
/// off mid-capture or draining events away. It is poison-tolerant: a
/// holder that panicked does not wedge the rest.
pub fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The process-wide event journal.
pub fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(Journal::default)
}

/// Records an event in the global [`journal`] when telemetry is
/// enabled (the journal analogue of [`count!`]).
#[inline]
pub fn event(epoch: u64, kind: EventKind, a: u64, b: u64) {
    if enabled() {
        journal().record(epoch, kind, a, b);
    }
}

/// A reusable local buffer for journal events emitted from a hot loop.
///
/// [`event`] takes the journal mutex once per event; a loop that emits
/// dozens of events per epoch pushes into this plain `Vec` instead and
/// [`flush`](EventBuf::flush)es them under a single lock at the epoch
/// boundary. Within-epoch ordering relative to directly-recorded events
/// shifts to the flush point; counts and epoch tags are unchanged.
#[derive(Default)]
pub struct EventBuf {
    buf: Vec<(u64, EventKind, u64, u64)>,
}

impl EventBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        EventBuf::default()
    }

    /// Buffers an event when telemetry is enabled (no lock taken).
    #[inline]
    pub fn push(&mut self, epoch: u64, kind: EventKind, a: u64, b: u64) {
        if enabled() {
            self.buf.push((epoch, kind, a, b));
        }
    }

    /// Events buffered since the last flush or clear.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drops everything buffered, retaining the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends `other`'s buffered events in `range`, in order: a caller
    /// that buffered events on several threads interleaves them here
    /// before one flush.
    pub fn extend_from(&mut self, other: &EventBuf, range: std::ops::Range<usize>) {
        self.buf.extend_from_slice(&other.buf[range]);
    }

    /// Appends everything buffered to the global [`journal`] under one
    /// lock, retaining the allocation for reuse.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            journal().record_batch(&self.buf);
            self.buf.clear();
        }
    }
}

/// A cached handle to the global counter named `$name`.
///
/// The registry lookup (a `Mutex` + `BTreeMap` walk) happens once per
/// call site; afterwards this is a `OnceLock` load. `$name` must be a
/// string literal (each expansion owns one static slot).
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().counter($name)))
    }};
}

/// Adds `$n` to the global counter `$name` when telemetry is enabled.
#[macro_export]
macro_rules! count {
    ($name:literal, $n:expr) => {
        if $crate::enabled() {
            $crate::counter!($name).add($n);
        }
    };
    ($name:literal) => {
        $crate::count!($name, 1)
    };
}

/// A cached handle to the global float counter named `$name`.
#[macro_export]
macro_rules! float_counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::FloatCounter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().float($name)))
    }};
}

/// Adds `$x` (an `f64`) to the global float counter `$name` when
/// telemetry is enabled.
#[macro_export]
macro_rules! count_float {
    ($name:literal, $x:expr) => {
        if $crate::enabled() {
            $crate::float_counter!($name).add($x);
        }
    };
}

/// A cached handle to the global gauge named `$name`.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().gauge($name)))
    }};
}

/// Sets the global gauge `$name` to `$v` when telemetry is enabled.
#[macro_export]
macro_rules! set_gauge {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            $crate::gauge!($name).set($v);
        }
    };
}

/// A cached handle to the global histogram named `$name`.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().histogram($name)))
    }};
}

/// Records sample `$v` (a `u64`) into the global histogram `$name` when
/// telemetry is enabled.
#[macro_export]
macro_rules! observe {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            $crate::histogram!($name).record($v);
        }
    };
}

/// Opens an RAII span recording its duration (ns) into the global
/// histogram `$name`; a noop when telemetry is disabled. Bind the
/// result (`let _s = span!(...)`) — the timing is taken at drop.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        if $crate::enabled() {
            // Leak-free: the histogram Arc lives in the registry; the
            // span borrows a per-site &'static through the OnceLock.
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            $crate::Span::enter(
                $name,
                ::std::sync::Arc::as_ref(HANDLE.get_or_init(|| $crate::global().histogram($name))),
            )
        } else {
            $crate::Span::noop()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_gates_macros() {
        let _g = switch_lock();
        set_enabled(true);
        count!("test.lib.gated", 2);
        observe!("test.lib.gated_hist", 5);
        set_enabled(false);
        count!("test.lib.gated", 100);
        observe!("test.lib.gated_hist", 100);
        let s = span!("test.lib.gated_span");
        assert!(!s.is_recording());
        drop(s);
        clear_enabled();

        let snap = global().snapshot();
        assert_eq!(snap.counter("test.lib.gated"), 2);
        assert_eq!(snap.hist("test.lib.gated_hist").count, 1);
    }

    #[test]
    fn event_helper_respects_switch() {
        let _g = switch_lock();
        set_enabled(false);
        event(1, EventKind::NackSent, 1, 1);
        set_enabled(true);
        event(2, EventKind::Retransmit, 9, 1);
        clear_enabled();
        let drained = journal().drain();
        assert!(drained.iter().all(|e| e.kind != EventKind::NackSent));
        assert!(drained
            .iter()
            .any(|e| e.kind == EventKind::Retransmit && e.epoch == 2));
    }

    #[test]
    fn event_buf_respects_switch_and_flushes_once() {
        let _g = switch_lock();
        let mut buf = EventBuf::new();
        set_enabled(false);
        buf.push(1, EventKind::NackSent, 1, 1);
        set_enabled(true);
        buf.push(2, EventKind::Resolicit, 7, 3);
        buf.push(2, EventKind::Retransmit, 8, 1);
        clear_enabled();
        buf.flush();
        buf.flush(); // idempotent once drained into the journal
        let drained = journal().drain();
        assert!(drained.iter().all(|e| e.kind != EventKind::NackSent));
        assert_eq!(
            drained
                .iter()
                .filter(|e| e.epoch == 2 && (e.a == 7 || e.a == 8))
                .count(),
            2
        );
    }

    #[test]
    fn macro_handles_are_the_registry_handles() {
        let _g = switch_lock();
        set_enabled(true);
        count!("test.lib.shared_handle", 1);
        clear_enabled();
        global().counter("test.lib.shared_handle").add(4);
        assert_eq!(
            global().snapshot().counter("test.lib.shared_handle"),
            5,
            "macro slot and registry lookup must alias one atomic"
        );
    }
}
