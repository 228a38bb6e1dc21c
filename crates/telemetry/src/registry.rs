//! Named-metric registry with point-in-time snapshots, diffs, and a
//! zero-dependency JSON exporter.
//!
//! Metric handles are `Arc`s: looking a name up takes a `Mutex`, but
//! call sites do that once (the recording macros cache the handle in a
//! `OnceLock`) and every subsequent record is lock-free on the metric
//! itself. `BTreeMap` keeps export and diff order deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metric::{Counter, FloatCounter, Gauge, Histogram, HistogramSnapshot};

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    floats: BTreeMap<&'static str, Arc<FloatCounter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    hists: BTreeMap<&'static str, Arc<Histogram>>,
}

/// A collection of named metrics.
///
/// The process-wide instance is [`global()`]; code that needs isolated
/// accounting (the epoch engine derives `EpochStats` from a private
/// registry so stats work even when global telemetry is off) can own
/// additional ones.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Metrics>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.metrics
                .lock()
                .unwrap()
                .counters
                .entry(name)
                .or_default(),
        )
    }

    /// Returns the float counter registered under `name`.
    pub fn float(&self, name: &'static str) -> Arc<FloatCounter> {
        Arc::clone(self.metrics.lock().unwrap().floats.entry(name).or_default())
    }

    /// Returns the gauge registered under `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(self.metrics.lock().unwrap().gauges.entry(name).or_default())
    }

    /// Returns the histogram registered under `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(self.metrics.lock().unwrap().hists.entry(name).or_default())
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap();
        Snapshot {
            counters: m
                .counters
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            floats: m
                .floats
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: m
                .gauges
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            hists: m
                .hists
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }

    /// Merges a snapshot's monotone metrics (counters, floats,
    /// histograms) into this registry; gauges are set to the snapshot's
    /// value. Used to fold a local registry's per-epoch diff into the
    /// global one.
    pub fn absorb(&self, s: &Snapshot) {
        for (name, &v) in &s.counters {
            if v > 0 {
                self.counter(leak_name(name)).add(v);
            }
        }
        for (name, &v) in &s.floats {
            if v != 0.0 {
                self.float(leak_name(name)).add(v);
            }
        }
        for (name, &v) in &s.gauges {
            self.gauge(leak_name(name)).set(v);
        }
        for (name, h) in &s.hists {
            if h.count > 0 {
                self.histogram(leak_name(name)).absorb(h);
            }
        }
    }
}

/// Interns a runtime metric name, returning a `&'static str`.
///
/// Metric name sets are small and fixed (dozens of instrumentation
/// sites), so leaking each distinct name once is bounded; the intern
/// table makes repeat absorbs of the same snapshot shape free.
fn leak_name(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let table = INTERNED.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut table = table.lock().unwrap();
    if let Some(&s) = table.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.insert(name.to_string(), leaked);
    leaked
}

/// The process-wide registry that the recording macros target.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Plain-data copy of a [`Registry`] at a point in time.
///
/// Snapshots diff (`later.diff(&earlier)` = activity in between), merge,
/// and export; they are the unit the engine uses to derive `EpochStats`
/// and the unit `repro trace` serializes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Float-counter values by name.
    pub floats: BTreeMap<String, f64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub hists: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Float-counter value, 0.0 if absent.
    pub fn float(&self, name: &str) -> f64 {
        self.floats.get(name).copied().unwrap_or(0.0)
    }

    /// Gauge value, 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram state, empty if absent.
    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// Activity between `earlier` and `self`: counters, floats, and
    /// histograms subtract (names absent earlier count from zero);
    /// gauges keep their later value (a level has no meaningful delta).
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (name, v) in out.counters.iter_mut() {
            *v = v.wrapping_sub(earlier.counter(name));
        }
        for (name, v) in out.floats.iter_mut() {
            *v -= earlier.float(name);
        }
        for (name, h) in out.hists.iter_mut() {
            let e = earlier.hist(name);
            *h = h.diff(&e);
        }
        out
    }

    /// Adds another snapshot's monotone metrics into this one (gauges
    /// take the other's value when present). Associative with `diff`:
    /// `earlier.merge(&later.diff(&earlier))` reconstructs `later`.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.floats {
            *self.floats.entry(name.clone()).or_insert(0.0) += v;
        }
        for (name, &v) in &other.gauges {
            self.gauges.insert(name.clone(), v);
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(h);
        }
    }

    /// True when every metric is zero/empty.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self.floats.values().all(|&v| v == 0.0)
            && self.gauges.values().all(|&v| v == 0)
            && self.hists.values().all(|h| h.count == 0)
    }

    /// Serializes the snapshot as a self-contained JSON object
    /// (hand-rolled — the telemetry crate has no dependencies).
    ///
    /// Shape: `{"counters": {..}, "floats": {..}, "gauges": {..},
    /// "histograms": {name: {count, sum, mean, p50_ub, p99_ub,
    /// buckets: {"le_<bound>": n, ...nonzero only}}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |o, v| {
            let _ = write!(o, "{v}");
        });
        out.push_str("},\"floats\":{");
        push_entries(&mut out, self.floats.iter(), |o, v| push_f64(o, *v));
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |o, v| {
            let _ = write!(o, "{v}");
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.hists.iter(), |o, h| {
            let _ = write!(o, "{{\"count\":{},\"sum\":{},\"mean\":", h.count, h.sum);
            push_f64(o, h.mean());
            let _ = write!(
                o,
                ",\"p50_ub\":{},\"p99_ub\":{},\"buckets\":{{",
                h.quantile_upper_bound(0.5),
                h.quantile_upper_bound(0.99)
            );
            let mut first = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    o.push(',');
                }
                first = false;
                let _ = write!(o, "\"le_{}\":{}", crate::metric::bucket_upper_bound(i), n);
            }
            o.push_str("}}");
        });
        out.push_str("}}");
        out
    }
}

/// Writes `"key":<value>` pairs with JSON string escaping on keys.
fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        for c in name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push_str("\":");
        write_value(out, v);
    }
}

/// Writes an `f64` as valid JSON (no NaN/Inf; those become 0).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(r.snapshot().counter("x"), 5);
    }

    #[test]
    fn snapshot_diff_and_merge_round_trip() {
        let r = Registry::new();
        r.counter("c").add(10);
        r.float("f").add(1.5);
        r.gauge("g").set(3);
        r.histogram("h").record(100);
        let t0 = r.snapshot();
        r.counter("c").add(7);
        r.counter("new").add(1);
        r.float("f").add(0.5);
        r.gauge("g").set(9);
        r.histogram("h").record(200);
        let t1 = r.snapshot();

        let d = t1.diff(&t0);
        assert_eq!(d.counter("c"), 7);
        assert_eq!(d.counter("new"), 1);
        assert_eq!(d.float("f"), 0.5);
        assert_eq!(d.gauge("g"), 9); // gauges keep the later level
        assert_eq!(d.hist("h").count, 1);

        let mut recon = t0.clone();
        recon.merge(&d);
        assert_eq!(recon, t1);
    }

    #[test]
    fn absorb_folds_a_diff_into_another_registry() {
        let local = Registry::new();
        local.counter("c").add(4);
        local.histogram("h").record(8);
        let global = Registry::new();
        global.counter("c").add(1);
        global.absorb(&local.snapshot());
        let s = global.snapshot();
        assert_eq!(s.counter("c"), 5);
        assert_eq!(s.hist("h").count, 1);
    }

    #[test]
    fn empty_detection() {
        let r = Registry::new();
        r.counter("c"); // registered but zero
        assert!(r.snapshot().is_empty());
        r.counter("c").incr();
        assert!(!r.snapshot().is_empty());
    }

    #[test]
    fn json_exporter_is_well_formed() {
        let r = Registry::new();
        r.counter("net.bytes").add(12);
        r.float("energy.tx_j").add(0.25);
        r.gauge("lanes.width").set(8);
        r.histogram("span.merge_ns").record(0);
        r.histogram("span.merge_ns").record(1000);
        let js = r.snapshot().to_json();
        assert!(js.contains("\"net.bytes\":12"), "{js}");
        assert!(js.contains("\"energy.tx_j\":0.25"), "{js}");
        assert!(js.contains("\"lanes.width\":8"), "{js}");
        assert!(js.contains("\"count\":2"), "{js}");
        assert!(js.contains("\"le_0\":1"), "{js}");
        // Balanced braces (crude well-formedness check without a parser
        // dependency; no strings contain braces here).
        let open = js.matches('{').count();
        let close = js.matches('}').count();
        assert_eq!(open, close, "{js}");
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut s = Snapshot::default();
        s.counters.insert("we\"ird\\name".into(), 1);
        let js = s.to_json();
        assert!(js.contains("we\\\"ird\\\\name"), "{js}");
    }
}
