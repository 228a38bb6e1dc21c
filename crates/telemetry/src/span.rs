//! RAII span timers.
//!
//! A span measures one wall-clock section and records its duration (in
//! nanoseconds) into a histogram when dropped. While the
//! [`timeline`](crate::timeline) is recording, the drop also appends the
//! span's exact interval, labelled with its thread's [`thread_tid`], so
//! nesting and concurrency are read off the timeline rather than kept
//! in a live stack. A disabled span ([`Span::noop`]) skips everything.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::metric::Histogram;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's label, drawn from [`NEXT_TID`] on first use.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A live timed section. Created by [`Span::enter`] (usually via the
/// [`span!`](crate::span!) macro); records on drop.
///
/// A disabled span ([`Span::noop`]) skips the clock read and the
/// histogram record entirely — the kill-switch reduces a `span!` site to
/// one relaxed load and a branch.
#[must_use = "a span records when dropped; binding it to _ discards the timing"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    start: Instant,
    hist: &'static Histogram,
}

impl Span {
    /// Starts a span that records its duration into `hist` on drop.
    pub fn enter(name: &'static str, hist: &'static Histogram) -> Span {
        Span {
            inner: Some(SpanInner {
                name,
                start: Instant::now(),
                hist,
            }),
        }
    }

    /// A span that does nothing (telemetry disabled).
    pub fn noop() -> Span {
        Span { inner: None }
    }

    /// Whether this span is live (false for [`Span::noop`]).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed = inner.start.elapsed();
            inner.hist.record_duration(elapsed);
            crate::timeline::record_complete(inner.name, inner.start, elapsed);
        }
    }
}

/// This thread's stable trace label: a small dense number assigned on
/// first call, in call order starting at 1.
pub fn thread_tid() -> u64 {
    TID.with(|tid| *tid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn hist() -> &'static Histogram {
        static H: OnceLock<Histogram> = OnceLock::new();
        H.get_or_init(Histogram::new)
    }

    #[test]
    fn span_records_on_drop() {
        let before = hist().snapshot().count;
        {
            let _outer = Span::enter("outer", hist());
            {
                let _inner = Span::enter("inner", hist());
            }
            assert_eq!(hist().snapshot().count, before + 1);
        }
        assert_eq!(hist().snapshot().count, before + 2);
    }

    #[test]
    fn noop_span_is_invisible() {
        static H: OnceLock<Histogram> = OnceLock::new();
        let h = H.get_or_init(Histogram::new);
        {
            let s = Span::noop();
            assert!(!s.is_recording());
            let _live = Span::enter("live", h);
        }
        assert_eq!(h.snapshot().count, 1, "only the live span records");
    }

    #[test]
    fn each_thread_gets_a_distinct_stable_tid() {
        let me = thread_tid();
        assert_eq!(thread_tid(), me, "a thread's label is stable");
        let others: Vec<(u64, u64)> = (0..4)
            .map(|_| std::thread::spawn(|| (thread_tid(), thread_tid())))
            .map(|h| h.join().unwrap())
            .collect();
        let mut seen = vec![me];
        for (first, again) in others {
            assert_eq!(first, again, "a thread's label is stable");
            assert!(first >= 1);
            assert!(!seen.contains(&first), "label {first} reused");
            seen.push(first);
        }
    }
}
