//! Chrome `trace_event` timeline capture.
//!
//! While recording is on, every completed [`Span`](crate::Span) also
//! appends one *complete* (`"ph":"X"`) trace event — name, start
//! timestamp, duration, thread label — to a bounded in-memory buffer.
//! [`stop_recording`] drains the buffer; [`to_trace_json`] serialises
//! it in the Trace Event Format that `chrome://tracing` / Perfetto
//! load directly, giving a zoomable timeline of epoch and pipeline
//! phases.
//!
//! Costs: when recording is off (the default), the hook in `Span::drop`
//! is one relaxed load and a branch. When on, it is one mutex push into
//! a pre-bounded `Vec`; overflow drops the event and counts it (exposed
//! in [`TimelineCapture::dropped`] and the `telemetry.events_dropped`
//! counter) rather than growing without bound.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default event-buffer capacity for [`start_recording`].
pub const DEFAULT_TIMELINE_CAPACITY: usize = 1 << 16;

/// One completed span occurrence on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (static instrumentation label).
    pub name: &'static str,
    /// Start time in microseconds since recording began.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Thread label (see [`crate::span::thread_tid`]).
    pub tid: u64,
}

/// The result of a recording session: the captured events plus how many
/// were discarded because the bounded buffer was full.
#[derive(Debug, Default)]
pub struct TimelineCapture {
    /// Events captured, in completion order.
    pub events: Vec<TraceEvent>,
    /// Events discarded on overflow.
    pub dropped: u64,
}

struct Buffer {
    events: Vec<TraceEvent>,
    cap: usize,
    origin: Instant,
    dropped: u64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);

fn buffer() -> &'static Mutex<Option<Buffer>> {
    static BUF: OnceLock<Mutex<Option<Buffer>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(None))
}

/// Starts timeline recording with a buffer of at most `capacity`
/// events. A recording already in progress is discarded.
pub fn start_recording(capacity: usize) {
    let mut buf = buffer().lock().unwrap();
    *buf = Some(Buffer {
        events: Vec::with_capacity(capacity.min(DEFAULT_TIMELINE_CAPACITY)),
        cap: capacity.max(1),
        origin: Instant::now(),
        dropped: 0,
    });
    RECORDING.store(true, Ordering::Release);
}

/// Whether timeline recording is currently on (one relaxed load).
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Stops recording and returns everything captured since
/// [`start_recording`]. Returns an empty capture when recording was
/// never started.
pub fn stop_recording() -> TimelineCapture {
    RECORDING.store(false, Ordering::Release);
    let mut buf = buffer().lock().unwrap();
    match buf.take() {
        Some(b) => TimelineCapture {
            events: b.events,
            dropped: b.dropped,
        },
        None => TimelineCapture::default(),
    }
}

/// Hook called from `Span::drop`. Cheap no-op unless recording; only a
/// recorded span reads its thread's [`thread_tid`](crate::thread_tid).
pub(crate) fn record_complete(name: &'static str, start: Instant, dur: Duration) {
    if !is_recording() {
        return;
    }
    let tid = crate::span::thread_tid();
    let mut buf = buffer().lock().unwrap();
    let Some(b) = buf.as_mut() else { return };
    if b.events.len() >= b.cap {
        b.dropped += 1;
        crate::journal::note_events_dropped(1);
        return;
    }
    let ts_us = start.saturating_duration_since(b.origin).as_micros() as u64;
    b.events.push(TraceEvent {
        name,
        ts_us,
        dur_us: dur.as_micros() as u64,
        tid,
    });
}

/// Serialises events in the Chrome Trace Event Format (JSON object
/// form): `{"traceEvents":[{"name":…,"ph":"X","ts":…,"dur":…,…}]}`.
/// Load the output in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn to_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Span names are static identifiers (no quotes/backslashes),
        // but escape defensively so output is always valid JSON.
        out.push_str("{\"name\":\"");
        for c in e.name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str(&format!(
            "\",\"cat\":\"sies\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            e.ts_us, e.dur_us, e.tid
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Histogram;
    use crate::Span;

    fn hist() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(Histogram::new)
    }

    /// Recording state is process-global, and spans dropped by other
    /// concurrently running tests would leak into a capture; serialise
    /// the timeline tests and filter captured events by our own tid.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn captures_span_completions_in_order() {
        let _g = test_lock();
        start_recording(1 << 12);
        {
            let _outer = Span::enter("tl_outer", hist());
            let _inner = Span::enter("tl_inner", hist());
        }
        let cap = stop_recording();
        let me = crate::span::thread_tid();
        let names: Vec<&str> = cap
            .events
            .iter()
            .filter(|e| e.tid == me)
            .map(|e| e.name)
            .collect();
        // Inner drops first.
        assert_eq!(names, vec!["tl_inner", "tl_outer"]);
        let json = to_trace_json(&cap.events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"tl_outer\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn overflow_drops_and_counts() {
        let _g = test_lock();
        start_recording(1);
        {
            let _a = Span::enter("tl_a", hist());
        }
        {
            let _b = Span::enter("tl_b", hist());
        }
        let cap = stop_recording();
        assert_eq!(cap.events.len(), 1);
        assert!(cap.dropped >= 1);
    }

    #[test]
    fn not_recording_captures_nothing() {
        let _g = test_lock();
        // Ensure off.
        let _ = stop_recording();
        {
            let _s = Span::enter("tl_off", hist());
        }
        let cap = stop_recording();
        assert!(cap.events.is_empty());
        assert_eq!(cap.dropped, 0);
    }
}
