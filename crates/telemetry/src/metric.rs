//! Lock-free metric primitives: counters, float counters, gauges, and
//! fixed-width log2-bucketed histograms.
//!
//! Every record path is a handful of `Relaxed` atomic operations — no
//! locks, no allocation — so instrumentation can sit on hot paths. All
//! types are mergeable: two instances recorded independently (e.g. on
//! different threads, or across a snapshot boundary) combine into
//! exactly the totals a single instance would have seen.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `f64` accumulator (energy joules, seconds)
/// stored as raw bits in an `AtomicU64` and updated with a CAS loop —
/// still lock-free, at the cost of a retry under contention.
#[derive(Debug, Default)]
pub struct FloatCounter(AtomicU64);

impl FloatCounter {
    /// Creates a float counter at `0.0`.
    pub const fn new() -> Self {
        FloatCounter(AtomicU64::new(0))
    }

    /// Adds `x` (non-finite contributions are dropped so the exporters
    /// always emit valid JSON).
    #[inline]
    pub fn add(&self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A last-write-wins level indicator (queue depths, configured widths).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i`
/// (`1 ≤ i ≤ 64`) holds values in `[2^(i-1), 2^i)` — so the full `u64`
/// range, including `u64::MAX`, lands in a bucket and two histograms
/// always merge bucket-by-bucket.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-width, mergeable, log2-bucketed histogram of `u64` samples
/// (latencies in nanoseconds, sizes in bytes, batch widths).
///
/// Recording touches three relaxed atomics: the bucket, the count, and
/// the (wrapping) sum. There is no lock and no dynamic allocation; the
/// bucket array is fixed at [`HIST_BUCKETS`].
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    /// Wrapping sum of all samples (used for means; wraps only after
    /// ~1.8e19 total units, documented rather than guarded).
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`
/// (the sample's bit length).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array through the const
        // initializer pattern.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed); // wrapping by definition
    }

    /// Records a duration as whole nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// A point-in-time copy of the histogram's state.
    ///
    /// The three loads are not mutually atomic; under concurrent
    /// recording the snapshot may be torn by a few in-flight samples.
    /// Quiescent snapshots (the only ones the suite diffs) are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Merges a snapshot's contents into this histogram (used when a
    /// local registry's epoch diff is absorbed into the global one).
    pub fn absorb(&self, s: &HistogramSnapshot) {
        for (b, &v) in self.buckets.iter().zip(&s.buckets) {
            if v > 0 {
                b.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(s.count, Ordering::Relaxed);
        self.sum.fetch_add(s.sum, Ordering::Relaxed);
    }
}

/// Plain-data copy of a [`Histogram`], supporting merge and diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Wrapping sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Adds another snapshot's samples into this one (associative and
    /// commutative — merge order never matters).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
    }

    /// Samples recorded since `earlier` (bucket-wise saturating
    /// subtraction; `earlier` must be an older snapshot of the same
    /// histogram for the result to be meaningful).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        out.count = out.count.wrapping_sub(earlier.count);
        out.sum = out.sum.wrapping_sub(earlier.sum);
        for (a, b) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a.saturating_sub(*b);
        }
        out
    }

    /// Mean sample value (0 when empty; meaningless if `sum` wrapped).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty. A log2 histogram bounds the true
    /// quantile within a factor of 2.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn float_counter_accumulates() {
        let f = FloatCounter::new();
        f.add(1.5);
        f.add(2.25);
        f.add(f64::NAN); // dropped
        f.add(f64::INFINITY); // dropped
        assert_eq!(f.get(), 3.75);
    }

    #[test]
    fn gauge_set_and_raise() {
        let g = Gauge::new();
        g.set(7);
        g.raise(3);
        assert_eq!(g.get(), 7);
        g.raise(10);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_cover_the_domain() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value's bucket upper bound is >= the value.
        for v in [0u64, 1, 2, 3, 5, 1000, u64::MAX - 1, u64::MAX] {
            assert!(bucket_upper_bound(bucket_index(v)) >= v, "v = {v}");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the two ones
        assert_eq!(s.buckets[3], 1); // 7
        assert_eq!(s.buckets[11], 1); // 1024
        assert_eq!(s.buckets[64], 1); // u64::MAX
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 1 + 7 + 1024).wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn snapshot_diff_round_trips() {
        let h = Histogram::new();
        h.record(5);
        let t0 = h.snapshot();
        h.record(9);
        h.record(100);
        let t1 = h.snapshot();
        let d = t1.diff(&t0);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 109);
        // diff + earlier == later, bucket by bucket.
        let mut recon = t0.clone();
        recon.merge(&d);
        assert_eq!(recon, t1);
    }

    #[test]
    fn quantiles_bound_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile_upper_bound(0.5);
        let p99 = s.quantile_upper_bound(0.99);
        assert!((500..1024).contains(&p50), "p50 bound {p50}");
        assert!(p99 >= 990, "p99 bound {p99}");
        assert!((s.mean() - 500.5).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), 0);
    }
}
